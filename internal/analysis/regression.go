package analysis

import (
	"fmt"
	"math"

	"nbhd/internal/scene"
)

// RegressionResult is a fitted multivariate linear model of outcome
// prevalence on indicator rates — the "adjusted" analysis the
// neighborhood-health literature (paper refs [5], [6], [11]) runs on top
// of street-view-derived indicators, where simple correlations confound
// (urban tracts have more sidewalks *and* more streetlights).
type RegressionResult struct {
	// Intercept is the fitted constant term.
	Intercept float64
	// Coef holds per-indicator fitted coefficients.
	Coef [scene.NumIndicators]float64
	// R2 is the coefficient of determination on the fitting data.
	R2 float64
	// N is the number of tracts fitted.
	N int
}

// FitRegression estimates an ordinary-least-squares model of outcomes on
// tract indicator rates, solving the normal equations with Gaussian
// elimination (partial pivoting). It needs more tracts than parameters.
func FitRegression(tracts []TractProfile, outcomes []Outcome) (*RegressionResult, error) {
	const params = scene.NumIndicators + 1
	if len(tracts) != len(outcomes) {
		return nil, fmt.Errorf("analysis: %d tracts vs %d outcomes", len(tracts), len(outcomes))
	}
	if len(tracts) <= params {
		return nil, fmt.Errorf("analysis: regression needs > %d tracts, got %d", params, len(tracts))
	}
	byID := make(map[string]float64, len(outcomes))
	for _, o := range outcomes {
		byID[o.TractID] = o.Prevalence
	}

	// Design matrix row: [1, rates...]; accumulate XᵀX and Xᵀy.
	var xtx [params][params]float64
	var xty [params]float64
	ys := make([]float64, 0, len(tracts))
	for _, tp := range tracts {
		y, ok := byID[tp.TractID]
		if !ok {
			return nil, fmt.Errorf("analysis: no outcome for tract %s", tp.TractID)
		}
		ys = append(ys, y)
		var row [params]float64
		row[0] = 1
		for k := 0; k < scene.NumIndicators; k++ {
			row[k+1] = tp.Rates[k]
		}
		for i := 0; i < params; i++ {
			for j := 0; j < params; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y
		}
	}

	beta, err := solveSymmetric(xtx, xty)
	if err != nil {
		return nil, err
	}
	res := &RegressionResult{Intercept: beta[0], N: len(tracts)}
	for k := 0; k < scene.NumIndicators; k++ {
		res.Coef[k] = beta[k+1]
	}

	// R² against the mean predictor.
	var meanY float64
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(len(ys))
	var ssRes, ssTot float64
	for i, tp := range tracts {
		pred := res.Intercept
		for k := 0; k < scene.NumIndicators; k++ {
			pred += res.Coef[k] * tp.Rates[k]
		}
		d := ys[i] - pred
		ssRes += d * d
		t := ys[i] - meanY
		ssTot += t * t
	}
	if ssTot > 0 {
		res.R2 = 1 - ssRes/ssTot
	}
	return res, nil
}

// solveSymmetric solves Ax=b for a small dense system via Gaussian
// elimination with partial pivoting. A ridge epsilon stabilizes
// collinear indicator rates.
func solveSymmetric(a [scene.NumIndicators + 1][scene.NumIndicators + 1]float64, b [scene.NumIndicators + 1]float64) ([scene.NumIndicators + 1]float64, error) {
	const n = scene.NumIndicators + 1
	const ridge = 1e-9
	for i := 0; i < n; i++ {
		a[i][i] += ridge
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return b, fmt.Errorf("analysis: singular design matrix at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	var x [n]float64
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}
