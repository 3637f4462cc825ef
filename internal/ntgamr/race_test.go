//go:build race

package ntgamr

func init() { raceEnabled = true }
