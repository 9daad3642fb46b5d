// Package allowdirective seeds every malformed suppression the analyzer must
// reject: the directive grammar is //tspuvet:allow <analyzer>: <reason>, and
// each part is mandatory so the allowlist documents itself.
package allowdirective

import "time"

//tspuvet:allow walltime: fixture clock is compared against the virtual clock
var epoch = time.Now()

//tspuvet:allow walltime // want `malformed //tspuvet:allow directive`
var noReasonNoColon = time.Now()

//tspuvet:allow walltime: // want `//tspuvet:allow walltime is missing a reason`
var noReason = time.Now()

//tspuvet:allow chronomancer: the clock told me to // want `names unknown analyzer "chronomancer"`
var unknownAnalyzer = time.Now()

//tspuvet:allow allowdirective: suppress the suppressor // want `names unknown analyzer "allowdirective"`
var selfSuppression = time.Now()

//tspuvet:ignore walltime: wrong verb // want `unknown tspuvet directive "ignore"`
var unknownVerb = time.Now()

// A plain comment mentioning tspuvet:allow inside prose is not a directive
// because directives must start the comment: //tspuvet:allow is only parsed
// at column one of the comment text.
var prose = time.Now()
