// Package bft names the quorum-BFT consensus family for the assessment
// layer: its one export, Substrate, carries the family's fault tolerance
// (f = 1/3 of voting power) into core.Monitor. It runs no protocol — the
// three-phase commit state machine, its view changes and its Byzantine
// behaviours live in internal/bftlive, which the experiments, the example
// and the live loop all drive. The tests beside this file run that
// runtime against the bound declared here.
package bft

import "repro/internal/core"

// Substrate returns the quorum-BFT consensus family for
// core.WithSubstrate: safety holds while Byzantine voting power stays at
// or below f = 1/3 (Sec. II-C applied to a three-phase commit protocol
// whose quorums are strictly more than 2/3 of the power).
func Substrate() core.Substrate {
	return core.Family{FamilyName: "bft", FaultTolerance: core.BFTThreshold}
}
