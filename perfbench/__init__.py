"""End-to-end and per-layer benchmark of nilcone; see README.md."""
