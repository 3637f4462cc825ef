//go:build race

package hdfs

func init() { raceEnabled = true }
