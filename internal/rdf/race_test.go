//go:build race

package rdf

func init() { raceEnabled = true }
