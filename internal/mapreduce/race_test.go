//go:build race

package mapreduce

func init() { raceEnabled = true }
