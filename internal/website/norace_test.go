//go:build !race

package website

const raceEnabled = false
