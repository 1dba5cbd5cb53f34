package vm

// StripOps drops c's compiled text, so that every fetch compiles the
// word memory holds.
func StripOps(c *CPU) { c.ops = nil }

// MemDigest is memDigest for the external tests.
func MemDigest(m *Memory) string { return memDigest(m) }
