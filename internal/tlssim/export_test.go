package tlssim

import "crypto/ed25519"

// SetHandOffHit installs f to observe every possession proof a client
// accepts on its server's record instead of ed25519.Verify, and returns
// a function that restores the previous observer.
func SetHandOffHit(f func(key ed25519.PublicKey, input, sig []byte)) (restore func()) {
	prev := handOffHit
	handOffHit = f
	return func() { handOffHit = prev }
}
