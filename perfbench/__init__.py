"""Benchmark of folflow runs through execute_config; see README.md here."""
