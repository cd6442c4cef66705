// Package analysis is gamelens's project-invariant static analysis suite:
// five analyzers that turn the performance and determinism contracts the
// ROADMAP's performance model states in prose — borrowed-view no-retain
// rules, zero-allocation hot paths, packet-clock (never wall-clock) time,
// canonical sorted-key serialization, and single-goroutine SPSC affinity —
// into compile-time checks that run over every file in `make check`
// (the lintgate target, via cmd/gamelensvet).
//
// The analyzers are driven by machine-readable source directives: comments
// of the form
//
//	//gamelens:KEY [free-text reason]
//
// attached to the declaration they annotate (function, method, or type), or
// placed on — or immediately above — a statement to escape one finding.
// The vocabulary is closed; a typo'd key is itself a lintgate failure
// (see Registry and the KnownKeys table), and so is any key but
// single-goroutine on a type declaration, so a directive can never be
// silently ignored.
//
// # Directives
//
//	//gamelens:borrowed          (borrowcheck) on a func/method: its return
//	                             values are borrowed views of callee-owned
//	                             storage — callers must not store them into
//	                             struct fields, package vars, maps, channels
//	                             or slices that outlive the call (copy to
//	                             retain). Not a type directive: reports
//	                             are handed to sinks, not lent.
//	//gamelens:retain-ok         (borrowcheck) statement escape: this store
//	                             of a borrowed value is a documented
//	                             ownership transfer.
//	//gamelens:noalloc           (noalloc) on a func/method: the function —
//	                             and everything it calls in-package — must
//	                             not contain allocation-introducing
//	                             constructs (make/new, map/slice/closure
//	                             literals, unproven append, fmt/errors
//	                             calls, string concatenation, boxing
//	                             interface conversions, go statements).
//	//gamelens:alloc-ok          (noalloc) statement escape: this edge
//	                             allocation is deliberate (warm-up,
//	                             per-flow/per-bucket edge, cold path); the
//	                             in-package callee behind an escaped call is
//	                             not drawn into the no-alloc set.
//	//gamelens:wallclock-ok      (wallclock) on a func: this function is
//	                             operator-facing and may legitimately read
//	                             the wall clock (CLI timing); everything
//	                             else must stay on the packet clock. Also a
//	                             statement escape for a single call that
//	                             never feeds data (e.g. a time.Sleep
//	                             backpressure backoff).
//	//gamelens:single-goroutine  (spscaffinity) on a type: values are owned
//	                             by exactly one goroutine at a time —
//	                             capturing one variable in more than one go
//	                             statement, using it after handing it to a
//	                             goroutine, or storing it into shared
//	                             structures is a finding.
//	//gamelens:transfer-ok       (spscaffinity) statement escape: this store
//	                             or handoff is a documented ownership
//	                             transfer (e.g. a registry the owner never
//	                             mutates through, or a wg.Wait()-ordered
//	                             return of ownership).
//	//gamelens:sorted            (detjson) statement escape: this map
//	                             iteration inside a serialization call graph
//	                             is order-neutralized downstream (keys are
//	                             collected and sorted before any output).
//
// # Analyzers
//
//	borrowcheck   enforces the ...Into/borrowed-view contract (ROADMAP
//	              performance model, PR 4).
//	noalloc       enforces the zero-allocation steady-state contract the
//	              allocgate/sinkgate runtime pins measure (PR 4–7).
//	wallclock     enforces packet-clock determinism (PR 2): time.Now and
//	              friends are banned outside annotated operator code.
//	detjson       enforces canonical serialization (PR 3/5): no map
//	              iteration order may feed checkpoint output unsorted.
//	spscaffinity  enforces the SPSC ownership discipline (PR 6/7):
//	              single-goroutine values are never shared.
//
// # Scope and trust boundaries
//
// The suite is a linter, not a soundness proof. Analysis is per package
// over non-test files; cross-package calls are trusted at the annotation
// boundary (annotate the callee in its own package to have its body
// checked), dynamic dispatch through interfaces is not followed, and the
// runtime gates (allocgate, sinkgate) remain the ground truth for what
// actually allocates. What the analyzers add is breadth: every file on
// every build, not just the pinned functions on the pinned bench inputs.
//
// The framework is self-contained (loader via `go list -export -deps
// -json`, go/types with a gc export-data importer) so the suite builds
// with the standard toolchain alone; the analyzer API deliberately mirrors
// golang.org/x/tools/go/analysis so the passes could be rehosted on a
// multichecker with mechanical changes only.
package analysis
