package lib

import "testing"

// References from test files do not keep a name alive.
func TestLib(t *testing.T) {
	_ = Dead() + Hooked() + int(Square{}.Perimeter())
	unusedHelper()
}
