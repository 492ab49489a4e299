package verify

import (
	"context"
	"fmt"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
)

// solved is one class solved on its own, with the abstraction its counts
// came from (nil when solved concretely).
type solved struct {
	entry
	abs *core.Abstraction
}

// solveClass solves cls on its own, with no memo: the per-class reference a
// memo's fold is compared against.
func solveClass(ctx context.Context, b *build.Builder, comp *policy.Compiler, cls ec.Class, compressed bool) (solved, error) {
	e, _, err := solve(ctx, b, comp, cls, compressed)
	if err != nil || !compressed {
		return solved{entry: e}, err
	}
	abs, err := b.Compress(ctx, comp, cls)
	return solved{e, abs}, err
}

// parseACL pulls the ACL named B out of a config snippet for test setup.
func parseACL(text string) (*policy.ACL, error) {
	net, err := config.ParseString(text)
	if err != nil {
		return nil, err
	}
	a := net.Routers["x"].Env.ACLs["B"]
	if a == nil {
		return nil, fmt.Errorf("acl B missing")
	}
	return a, nil
}
