"""End-to-end real-time data-assimilation workflow (Fig. 1 of the paper)."""
