package repro_test

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/website"
)

// Example_quickstart is the paper's Figure 1 in code.
//
// A client downloads two objects from a simulated HTTP/2 server while
// a passive eavesdropper watches TLS record sizes at an on-path
// middlebox. When the requests go out back-to-back, the server's
// worker threads interleave the responses and the size side-channel
// dies; when an active adversary spaces the requests, the objects
// serialize and their exact sizes fall out of the encrypted trace.
func Example_quickstart() {
	// Two secret objects; the eavesdropper wants to know which pair.
	const sizeA, sizeB = 7300, 12100
	site := website.TwoObject(sizeA, sizeB)

	runCase := func(spacing time.Duration) {
		sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 3})
		var atk *core.Attack
		if spacing > 0 {
			atk = core.Install(sess, core.AttackConfig{Phase1Spacing: spacing})
		} else {
			atk = core.InstallPassive(sess)
		}
		sess.Run()

		// Ground truth: how interleaved was each object on the wire?
		for _, c := range analysis.CopyTransmissions(sess.GroundTruth) {
			obj, _ := site.Object(c.Key.ObjectID)
			fmt.Printf("  %-4s %5d bytes on the wire, degree of multiplexing %.0f%%\n",
				obj.Label, c.Bytes, 100*c.Degree)
		}

		// The adversary's view: delimiter-bounded record runs.
		infs := atk.Infer()
		fmt.Printf("  adversary sees %d delimited runs:\n", len(infs))
		for _, inf := range infs {
			verdict := "no match in size table"
			if inf.Object != nil {
				verdict = "identified as " + inf.Object.Label
			}
			fmt.Printf("    run of %d records, estimated %d bytes -> %s\n",
				inf.Records, inf.EstSize, verdict)
		}
	}

	fmt.Println("== Case 1: passive eavesdropper, multiplexed transmission ==")
	runCase(0)

	fmt.Println()
	fmt.Println("== Case 2: active adversary spacing requests 50ms apart ==")
	runCase(50 * time.Millisecond)

	// Output:
	// == Case 1: passive eavesdropper, multiplexed transmission ==
	//   O1    7300 bytes on the wire, degree of multiplexing 100%
	//   O2   12100 bytes on the wire, degree of multiplexing 81%
	//   adversary sees 2 delimited runs:
	//     run of 12 records, estimated 15700 bytes -> no match in size table
	//     run of 3 records, estimated 3700 bytes -> no match in size table
	//
	// == Case 2: active adversary spacing requests 50ms apart ==
	//   O1    7300 bytes on the wire, degree of multiplexing 0%
	//   O2   12100 bytes on the wire, degree of multiplexing 0%
	//   adversary sees 2 delimited runs:
	//     run of 6 records, estimated 7300 bytes -> identified as O1
	//     run of 9 records, estimated 12100 bytes -> identified as O2
}

// Example_pairInference demonstrates the paper's section VII adversary
// extension: identifying objects even when their transmissions are
// partly multiplexed, by matching sums of consecutive delimited runs
// against pairs of candidate object sizes.
func Example_pairInference() {
	const trials = 30
	basic, paired := 0, 0
	site := website.TwoObject(7300, 12100)
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 300})
	atk := core.NewAttack(sess)
	for i := 0; i < trials; i++ {
		sess.Reset(site, h2sim.SessionConfig{Seed: int64(300 + i)})
		atk.ArmPassive()
		sess.Run()
		recs := atk.Monitor.ResponseRecords()
		for _, inf := range atk.Predictor.Infer(recs) {
			if inf.Object != nil && inf.Object.ID == 1 {
				basic++
				break
			}
		}
		if core.IdentifiedInPairs(atk.Predictor.InferPairs(recs), 1) {
			paired++
		}
	}
	fmt.Println("passive eavesdropper against a two-object multiplexed page:")
	fmt.Printf("  delimiter attack identifies O1 in      %2d/%d trials\n", basic, trials)
	fmt.Printf("  with pair-sum inference it identifies  %2d/%d trials\n", paired, trials)
	fmt.Println()
	fmt.Println("Interleaving destroys run boundaries but not totals: the sum")
	fmt.Println("across consecutive unattributable runs still equals the sum of")
	fmt.Println("the objects' sizes, which identifies the pair when unambiguous.")

	// Output:
	// passive eavesdropper against a two-object multiplexed page:
	//   delimiter attack identifies O1 in       0/30 trials
	//   with pair-sum inference it identifies  29/30 trials
	//
	// Interleaving destroys run boundaries but not totals: the sum
	// across consecutive unattributable runs still equals the sum of
	// the objects' sizes, which identifies the pair when unambiguous.
}
