// Package lib plants one of each case the surface scanner must judge.
package lib

import "sort"

// Shape is implemented by Square.
type Shape interface{ Area() float64 }

// Square is a shape.
type Square struct{ Side float64 }

// Area is selected only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is a planted dead method.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Squares orders squares by side. Its methods are selected nowhere:
// only sort.Interface keeps them alive.
type Squares []Square

func (q Squares) Len() int           { return len(q) }
func (q Squares) Less(i, j int) bool { return q[i].Side < q[j].Side }
func (q Squares) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

// Used is called by main.
func Used() Shape {
	q := Squares{{Side: side()}, {Side: 1}}
	sort.Sort(q)
	return q[0]
}

func side() float64 { return 2 }

// Dead is a planted dead function; only a test and Dead itself call it.
func Dead() int { return Dead() + 1 }

// unusedHelper is a planted unused unexported function.
func unusedHelper() {}

// Hooked is called only by a test, and test_hooks.txt says which.
func Hooked() int { return 3 }

// NowUsed was a hook, but main calls it now.
func NowUsed() int { return 4 }
