package engine

// SetTestHookDecodePanic installs (or, with nil, clears) a hook that
// runs at the top of every slot's decode. Tests panic inside it to
// exercise the per-session panic-isolation path deterministically.
func SetTestHookDecodePanic(f func(sessionID uint64, slot int)) {
	testHookDecodePanic.Store(f)
}
