"""End-to-end benchmark with per-layer tracing (see README.md)."""
