// Negative cases for the spanfinish check: spans finished in-function
// (directly, deferred, or inside a deferred closure), spans that escape to
// a new owner, and a justified escape hatch.
package spanfinish

type holder struct{ s *span } // want deadsurface

func deferred(t *tracer) {
	sp := t.StartRoot("deferred")
	defer sp.Finish()
	sp.SetAttr("k", 1)
}

func direct(t *tracer, fail bool) {
	sp := t.StartRoot("direct")
	if fail {
		sp.Finish()
		return
	}
	sp.Finish()
}

func pairForm(t *tracer, ctx any) {
	ctx2, sp := t.StartSpan(ctx, "pair")
	defer sp.Finish()
	_ = ctx2
}

func reassigned(t *tracer) {
	var sp *span
	sp = t.StartRemote(1, 2, "remote")
	sp.Finish()
}

func finishedInClosure(t *tracer) {
	sp := t.StartRoot("closure")
	defer func() { sp.Finish() }()
}

func escapesByReturn(t *tracer) *span {
	sp := t.StartRoot("returned")
	return sp
}

func escapesAsArg(t *tracer) {
	sp := t.StartRoot("arg")
	adopt(sp)
}

func adopt(s *span) { s.Finish() }

func escapesIntoStruct(t *tracer) holder {
	sp := t.StartRoot("field")
	return holder{s: sp}
}

func escapesOnChannel(t *tracer, ch chan *span) {
	sp := t.StartRoot("sent")
	ch <- sp
}

func allowed(t *tracer) {
	sp := t.StartRoot("sampled") //lint:allow spanfinish demo span intentionally left open
	sp.SetAttr("k", 2)
}
