package bonsai

// The answer comparators, for the external tests.
var (
	QueryFingerprint        = queryFingerprint
	CheckConsistentSnapshot = checkConsistentSnapshot
)
