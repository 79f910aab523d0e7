// Package repolint implements the repository hygiene checks that gofmt
// and vet do not cover: every internal/ package keeps its package
// comment in a dedicated doc.go, and every relative markdown link in
// the root and docs/ trees resolves to an existing file. cmd/meclint
// runs them alongside the Go analyzers as its docs and links checks.
package repolint
