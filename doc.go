// Package repro reproduces "Fault Independence in Blockchain"
// (Jiangshan Yu, DSN 2023, Disrupt Track; arXiv:2306.05690) as a Go
// library: entropy-based measurement of replica-configuration diversity,
// κ-optimal fault independence and (κ, ω)-optimal resilience, remote
// attestation for configuration discovery, and the consensus substrates
// (weighted BFT, Nakamoto PoW, committee selection) used to evaluate them
// under shared-fault adversaries.
//
// The public surface lives in the internal packages (this module is a
// self-contained reproduction); see README.md for the map and
// `go run ./cmd/experiments -list` for the per-experiment index. Three
// pieces tie it together: the experiment registry (internal/experiment)
// that cmd/experiments and bench_test.go both drive off; the
// functional-options core.Monitor with its streaming Watch; and the
// core.Substrate values (BFT, Nakamoto, Committee, Threshold) through
// which callers select a consensus family.
package repro
