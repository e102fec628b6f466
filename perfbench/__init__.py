"""Host-time benchmark of the xbarprune pipeline; see README.md."""
