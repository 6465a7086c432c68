package analysis

// In-source suppression: a finding can be silenced by an explicit,
// justified comment —
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the offending line or on the line directly above it.
// "all" matches every analyzer. The reason is mandatory: an ignore
// without one is itself a finding (analyzer "suppression"), so
// the only way to silence the suite is to write down why — the
// enforced-reason rule the CI suppressions audit asserts.

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// suppressionPrefix is the comment marker, staticcheck-compatible so
// editors that already understand lint:ignore highlight it.
const suppressionPrefix = "//lint:ignore"

// Suppression is one parsed //lint:ignore comment.
type Suppression struct {
	Pos       token.Position
	Analyzers []string // analyzer names, or ["all"]
	Reason    string
}

// Matches reports whether s silences a finding by analyzer name.
func (s Suppression) Matches(analyzer string) bool {
	for _, a := range s.Analyzers {
		if a == "all" || a == analyzer {
			return true
		}
	}
	return false
}

// collectSuppressions parses every //lint:ignore comment in files.
// Malformed or reasonless comments come back as findings, which the
// caller reports with the analyzers' own.
func collectSuppressions(fset *token.FileSet, files []*ast.File) ([]Suppression, []Finding) {
	var (
		sups     []Suppression
		problems []Finding
	)
	problem := func(pos token.Position, msg string) {
		problems = append(problems, Finding{Analyzer: "suppression", Pos: pos, Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, suppressionPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, suppressionPrefix))
				if rest == "" {
					problem(pos, "lint:ignore needs an analyzer list and a reason: //lint:ignore <analyzer> <reason>")
					continue
				}
				names, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if reason == "" {
					problem(pos, "lint:ignore without a reason: every suppression must say why (//lint:ignore "+names+" <reason>)")
					continue
				}
				sups = append(sups, Suppression{
					Pos:       pos,
					Analyzers: strings.Split(names, ","),
					Reason:    reason,
				})
			}
		}
	}
	return sups, problems
}

// applySuppressions returns the findings no suppression covers. A
// suppression covers its own line (trailing comment) and the line
// below it (comment above the offending statement).
func applySuppressions(findings []Finding, sups []Suppression) []Finding {
	return slices.DeleteFunc(findings, func(f Finding) bool {
		return slices.ContainsFunc(sups, func(s Suppression) bool {
			return s.Pos.Filename == f.Pos.Filename &&
				(f.Pos.Line == s.Pos.Line || f.Pos.Line == s.Pos.Line+1) &&
				s.Matches(f.Analyzer)
		})
	})
}

// CollectSuppressions returns every //lint:ignore comment in the
// loaded packages plus the problem findings for malformed ones — the
// `statleaklint -suppressions` audit listing.
func CollectSuppressions(pkgs []*LoadedPackage) ([]Suppression, []Finding) {
	var (
		sups     []Suppression
		problems []Finding
	)
	for _, lp := range pkgs {
		s, p := collectSuppressions(lp.Fset, lp.Files)
		sups = append(sups, s...)
		problems = append(problems, p...)
	}
	return sups, problems
}
