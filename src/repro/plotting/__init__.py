"""Terminal figure rendering and CSV export."""
