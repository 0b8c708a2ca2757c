"""Game-theoretic lane-merge behavior planning and closed-loop traffic simulation."""
