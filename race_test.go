//go:build race

package switchfs

func init() { raceEnabled = true }
