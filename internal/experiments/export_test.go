package experiments

import "sync/atomic"

// schemeRunsMade counts runScheme calls across the package's tests.
var schemeRunsMade atomic.Int64

func init() { runSchemeHook = func() { schemeRunsMade.Add(1) } }
