#include "sim/two_pole.h"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "sim/moments.h"

namespace cong93 {

TwoPole fit_two_pole(double m1, double m2)
{
    TwoPole tp;
    tp.b1 = -m1;
    tp.b2 = m1 * m1 - m2;
    return tp;
}

double two_pole_response(const TwoPole& tp, double t)
{
    if (t <= 0.0) return 0.0;
    if (tp.b1 <= 0.0) return 1.0;  // degenerate: no dynamics
    if (tp.b2 <= 0.0) {
        // Fall back to a single pole (pure RC first-order fit).
        return 1.0 - std::exp(-t / tp.b1);
    }
    const double disc = tp.b1 * tp.b1 - 4.0 * tp.b2;
    if (disc > 1e-12 * tp.b1 * tp.b1) {
        const double sq = std::sqrt(disc);
        const double p1 = (-tp.b1 + sq) / (2.0 * tp.b2);  // slower pole (closer to 0)
        const double p2 = (-tp.b1 - sq) / (2.0 * tp.b2);
        return 1.0 - (p2 * std::exp(p1 * t) - p1 * std::exp(p2 * t)) / (p2 - p1);
    }
    if (disc < -1e-12 * tp.b1 * tp.b1) {
        // Complex pair p = alpha +/- j*beta (underdamped; possible only for
        // poor fits of non-RC behaviour, handled for robustness).
        const double alpha = -tp.b1 / (2.0 * tp.b2);
        const double beta = std::sqrt(-disc) / (2.0 * tp.b2);
        return 1.0 -
               std::exp(alpha * t) * (std::cos(beta * t) - (alpha / beta) * std::sin(beta * t));
    }
    // Repeated pole.
    const double p = -tp.b1 / (2.0 * tp.b2);
    return 1.0 - (1.0 - p * t) * std::exp(p * t);
}

double two_pole_threshold_delay(const TwoPole& tp, double threshold)
{
    if (!(threshold > 0.0 && threshold < 1.0))
        throw std::invalid_argument("two_pole_threshold_delay: threshold in (0,1)");
    if (tp.b1 <= 0.0) return 0.0;
    // Bracket the first crossing by marching in fractions of b1 (the
    // first-order time constant), then bisect.
    const double step = tp.b1 / 16.0;
    double lo = 0.0;
    double hi = step;
    const double t_max = 400.0 * tp.b1;
    while (two_pole_response(tp, hi) < threshold) {
        lo = hi;
        hi += step;
        if (hi > t_max) return t_max;  // should not happen for RC responses
    }
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (two_pole_response(tp, mid) < threshold)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

std::vector<double> two_pole_sink_delays(const RcTree& rc, double threshold)
{
    const auto m = compute_moments(rc, 2);
    std::vector<double> out;
    out.reserve(rc.sink_nodes().size());
    for (const int s : rc.sink_nodes()) {
        const TwoPole tp = fit_two_pole(m[0][static_cast<std::size_t>(s)],
                                        m[1][static_cast<std::size_t>(s)]);
        out.push_back(two_pole_threshold_delay(tp, threshold));
    }
    return out;
}

PoleFit fit_pade12(double m1, double m2, double m3)
{
    // Solve  b1*m1 + b2 = -m2 ;  b1*m2 + b2*m1 = -m3  and set a1 = m1 + b1.
    const double det = m1 * m1 - m2;
    PoleFit pf;
    const double scale = std::abs(m1 * m1) + std::abs(m2);
    if (std::abs(det) > 1e-12 * scale) {
        const double b1 = (m3 - m1 * m2) / det;
        const double b2 = -m2 - b1 * m1;
        const double a1 = m1 + b1;
        // Stability guard: both poles must lie strictly in the left half
        // plane (real parts of the roots of b2 s^2 + b1 s + 1).
        const bool stable = b2 > 0.0 ? b1 > 0.0 : (b2 == 0.0 ? b1 > 0.0 : false);
        if (stable && std::isfinite(b1) && std::isfinite(b2)) {
            pf.b1 = b1;
            pf.b2 = b2;
            pf.a1 = a1;
            return pf;
        }
    }
    // Fallback: the paper's two-pole fit.
    const TwoPole tp = fit_two_pole(m1, m2);
    pf.b1 = tp.b1;
    pf.b2 = tp.b2;
    pf.a1 = 0.0;
    return pf;
}

double pole_fit_response(const PoleFit& pf, double t)
{
    if (t <= 0.0) return 0.0;
    if (pf.a1 == 0.0) return two_pole_response(TwoPole{pf.b1, pf.b2}, t);
    if (pf.b2 <= 0.0) {
        // Single pole with a zero: H = (1+a1 s)/(1+b1 s).
        if (pf.b1 <= 0.0) return 1.0;
        return 1.0 - (1.0 - pf.a1 / pf.b1) * std::exp(-t / pf.b1);
    }
    // General case via complex pole arithmetic; v(t) = 1 + Σ k_i e^{p_i t}
    // with k_i = (1 + a1 p_i) / (b2 p_i (p_i - p_j)).
    const std::complex<double> disc(pf.b1 * pf.b1 - 4.0 * pf.b2, 0.0);
    const std::complex<double> sq = std::sqrt(disc);
    const std::complex<double> p1 = (-pf.b1 + sq) / (2.0 * pf.b2);
    const std::complex<double> p2 = (-pf.b1 - sq) / (2.0 * pf.b2);
    if (std::abs(p1 - p2) < 1e-12 * std::abs(p1)) {
        // Repeated pole p: v = 1 - e^{pt}(1 - (p + a1 p^2 + ...) t) -- use a
        // tiny split instead of the exact limit for simplicity.
        const std::complex<double> eps = p1 * 1e-6;
        const std::complex<double> q1 = p1 + eps;
        const std::complex<double> q2 = p1 - eps;
        const std::complex<double> k1 =
            (1.0 + pf.a1 * q1) / (pf.b2 * q1 * (q1 - q2));
        const std::complex<double> k2 =
            (1.0 + pf.a1 * q2) / (pf.b2 * q2 * (q2 - q1));
        return 1.0 + (k1 * std::exp(q1 * t) + k2 * std::exp(q2 * t)).real();
    }
    const std::complex<double> k1 = (1.0 + pf.a1 * p1) / (pf.b2 * p1 * (p1 - p2));
    const std::complex<double> k2 = (1.0 + pf.a1 * p2) / (pf.b2 * p2 * (p2 - p1));
    return 1.0 + (k1 * std::exp(p1 * t) + k2 * std::exp(p2 * t)).real();
}

double pole_fit_threshold_delay(const PoleFit& pf, double threshold)
{
    if (!(threshold > 0.0 && threshold < 1.0))
        throw std::invalid_argument("pole_fit_threshold_delay: threshold in (0,1)");
    if (pf.b1 <= 0.0) return 0.0;
    const double step = pf.b1 / 16.0;
    double lo = 0.0;
    double hi = step;
    const double t_max = 400.0 * pf.b1;
    while (pole_fit_response(pf, hi) < threshold) {
        lo = hi;
        hi += step;
        if (hi > t_max) return t_max;
    }
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (pole_fit_response(pf, mid) < threshold)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

std::vector<double> pade_sink_delays(const RcTree& rc, double threshold)
{
    const auto m = compute_moments(rc, 3);
    std::vector<double> out;
    out.reserve(rc.sink_nodes().size());
    for (const int s : rc.sink_nodes()) {
        const PoleFit pf = fit_pade12(m[0][static_cast<std::size_t>(s)],
                                      m[1][static_cast<std::size_t>(s)],
                                      m[2][static_cast<std::size_t>(s)]);
        out.push_back(pole_fit_threshold_delay(pf, threshold));
    }
    return out;
}

}  // namespace cong93
