//go:build race

package zidian

func init() { raceEnabled = true }
