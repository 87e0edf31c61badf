"""Page-level benchmark of the CacheGenie reproduction, with per-layer attribution."""
