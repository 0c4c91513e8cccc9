"""State-vector simulator for a three-laboratory GHZ experiment with nested
observers, frame-dependent measurement schedules, and single-outcome
interpretation models."""
