// Command fixture is the module TestSurfaceScannerFixture scans.
package main

import "fixture/internal/lib"

func main() {
	println(lib.Used().Area(), lib.NowUsed())
}
