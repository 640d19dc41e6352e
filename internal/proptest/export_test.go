package proptest

// Rehome exposes rehome to the external test package (FuzzWorld).
func Rehome(s *Spec) { rehome(s) }
