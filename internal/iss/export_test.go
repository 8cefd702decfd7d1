package iss

// ARMDecodeLines and PPCDecodeLines report how many decode-cache lines
// an ISS has allocated, for the tests outside the package.
func ARMDecodeLines(s *ARM) int { return len(s.dcache.lines) }

func PPCDecodeLines(s *PPC) int { return len(s.dcache.lines) }
