"""Flow-level benchmark of the ``repro`` placement flows (see README.md)."""
