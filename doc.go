// Package xst is a complete Go implementation of D. L. Childs' Extended
// Set Theory (VLDB 1977): the scoped-membership data model, its
// operation algebra, processes-as-behaviors, the process/function space
// taxonomy, and the set-processing storage, distribution and
// optimization substrates the theory was invented to found.
//
// The implementation lives under internal/; see README.md for the
// architecture, DESIGN.md for the system inventory, and EXPERIMENTS.md
// for the paper-vs-measured record. Each experiment is a test and a
// benchmark beside the code it measures; EXPERIMENTS.md gives the
// command that regenerates each number. The root package re-exports
// the value model, the algebra and the process layer (api.go).
package xst
