"""End-to-end and per-layer benchmark for windbridge; see README.md."""
