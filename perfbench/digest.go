package main

// Result digests for the default seed, one per sweep (sim-sweep) and
// per Kernel.Run (scale-1m). A run with a pinned seed must reproduce
// its digest; TestPinnedDigests recomputes them.
var (
	pinnedSimDigest   = map[int64]string{1: "abfca04608a20cc2"}
	pinnedScaleDigest = map[int64]string{1: "034adf3044ef7437"}
)
