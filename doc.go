// Package repro is a from-scratch Go reproduction of "Depending on
// HTTP/2 for Privacy? Good Luck!" (Mitra, Vairam, SLP SK,
// Chandrachoodan, Kamakoti — DSN 2020): the first active traffic-
// analysis attack on HTTP/2, which forces a multiplexing server to
// serialize object transmissions and thereby restores the
// encrypted-object-size side channel.
//
// The repository root holds bench_test.go, whose benchmarks
// regenerate every table and figure of the paper's evaluation; the
// library lives under internal/ (see DESIGN.md for the system
// inventory), the command-line tools under cmd/, and the quickstart
// and pair-inference demonstrations in example_test.go.
package repro
