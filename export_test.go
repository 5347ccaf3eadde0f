package zidian

// Fixtures of the in-package differential suites, for the external test
// package (zidian_test), which may import the serving layer where this
// package's own tests cannot.
var (
	RangeSuite    = rangeSuite
	ScatterSuite  = scatterSuite
	RangeSuiteDDL = rangeSuiteDDL
	RangeEngines  = rangeEngines
	RangeItemsDB  = rangeItemsDB
	RenderResult  = renderResult
)
