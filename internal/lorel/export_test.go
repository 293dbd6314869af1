package lorel

import (
	"context"
	"fmt"
	"strings"
)

// WalkAndOracle parses query and enumerates its from-clause generators in
// written order twice: once expanding each path with the streaming walker,
// once with the breadth-first reference oracle. Each rendering lists every
// reached binding with its full environment, in order, and ends with the
// error text if expansion failed. Equal renderings mean the walker matched
// the oracle byte for byte.
func WalkAndOracle(e *Engine, query string) (walk, oracle string, err error) {
	q, err := Parse(query)
	if err != nil {
		return "", "", err
	}
	render := func(expand func(*evaluation, *env, *PathExpr) ([]pathResult, error)) string {
		var sb strings.Builder
		ev := e.newEvaluation(context.Background())
		if err := renderMatches(ev, q.From, nil, expand, &sb); err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
		}
		return sb.String()
	}
	walk = render((*evaluation).collectPath)
	oracle = render((*evaluation).evalPath)
	return walk, oracle, nil
}

func renderMatches(ev *evaluation, gens []FromItem, en *env, expand func(*evaluation, *env, *PathExpr) ([]pathResult, error), sb *strings.Builder) error {
	if len(gens) == 0 {
		return nil
	}
	rs, err := expand(ev, en, gens[0].Path)
	if err != nil {
		return err
	}
	for _, r := range rs {
		next := r.env.extend(gens[0].Var, r.b)
		for x := next; x != nil; x = x.parent {
			b := x.b
			fmt.Fprintf(sb, "%s=%d:%d:%v:%v:%v ", x.name, b.kind, b.id, b.val, b.hasAsOf, b.asOf)
		}
		sb.WriteByte('\n')
		if err := renderMatches(ev, gens[1:], next, expand, sb); err != nil {
			return err
		}
	}
	return nil
}
