// Package liveloop is empty. The live BFT harness and the live scenario
// library are part of package scenario (internal/scenario/live.go and
// library.go), and a timeline's live block boots the harness from
// Timeline.Apply. The package stays only because the repository benchmark
// (bench/ladder_sweep.go) still blank-imports it; once that import is
// dropped, delete this directory.
package liveloop
