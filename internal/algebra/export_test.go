package algebra

// FuzzEvalParity's instance generators, for the package's external tests.
var (
	RandomDatabase = randomDatabase
	RandomExpr     = randomExpr
)
