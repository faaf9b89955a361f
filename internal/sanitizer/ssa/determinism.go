package ssa

import (
	"fmt"
	"strings"
)

// determinism: no wall-clock (time) or global-PRNG (math/rand) imports in
// non-test code — simulated time comes from sim.Engine and randomness from
// the seeded internal/sim generator, so every run is replayable. The check
// keys on the import path of every ImportSpec, so aliased (`import t
// "time"`), dot and blank imports are all caught — the name an importer
// binds is irrelevant to what the package does.
var bannedImports = map[string]string{
	"time":         "wall-clock time breaks replayability; simulated time comes from sim.Engine.Now",
	"math/rand":    "the global PRNG breaks replayability; use the seeded generator in internal/sim",
	"math/rand/v2": "the global PRNG breaks replayability; use the seeded generator in internal/sim",
}

// inDeterminismScope reports whether rel's imports are subject to the
// determinism ban. The static-analysis toolchain itself is exempt — the
// analyzers time their own wall-clock for the CI budget attribution and
// never run inside a simulation — but its testdata fixtures stay in
// scope, because fixtures exist to prove the ban fires.
func inDeterminismScope(rel string) bool {
	return !strings.HasPrefix(rel, "internal/sanitizer/") || strings.Contains(rel, "/testdata/")
}

func checkDeterminism(ctx *modCtx) []Finding {
	var out []Finding
	for _, p := range ctx.pkgs {
		for i, f := range p.Files {
			rel := p.FileNames[i]
			if !inDeterminismScope(rel) {
				continue
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				why, ok := bannedImports[path]
				if !ok {
					continue
				}
				form := "import"
				switch {
				case imp.Name == nil:
				case imp.Name.Name == ".":
					form = "dot-import"
				case imp.Name.Name == "_":
					form = "blank import"
				default:
					form = fmt.Sprintf("aliased import (as %q)", imp.Name.Name)
				}
				out = append(out, Finding{
					File: rel, Line: ctx.m.Fset.Position(imp.Pos()).Line,
					Analyzer: "determinism",
					Msg:      fmt.Sprintf("%s of %q: %s", form, path, why),
				})
			}
		}
	}
	return out
}
