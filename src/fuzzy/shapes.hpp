#pragma once
/// \file shapes.hpp
/// Additional membership-function shapes beyond the paper's triangular and
/// trapezoidal forms. The FACS controllers do not use these (the paper
/// restricts itself to the real-time-friendly piecewise-linear shapes), but
/// a general-purpose fuzzy library ships the standard smooth family for
/// downstream users and for sensitivity experiments.

#include "fuzzy/membership.hpp"

namespace facs::fuzzy {

/// Gaussian bell: mu(x) = exp(-(x - mean)^2 / (2 sigma^2)).
/// support() reports mean +/- 4 sigma, a practical reach: the degree there
/// is e^-8 (about 3.4e-4), not zero, and stays nonzero until exp()
/// underflows near 38.6 sigma.
class Gaussian final : public MembershipFunction {
 public:
  /// \throws std::invalid_argument if sigma is not positive or a parameter
  ///         is non-finite.
  Gaussian(double mean, double sigma);

  [[nodiscard]] double degree(double x) const noexcept override;
  [[nodiscard]] Interval support() const noexcept override;
  [[nodiscard]] double peak() const noexcept override { return mean_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<MembershipFunction> clone() const override;

  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 private:
  double mean_;
  double sigma_;
};

/// Generalized bell: mu(x) = 1 / (1 + |(x - center)/width|^(2 slope)).
class GeneralizedBell final : public MembershipFunction {
 public:
  /// \throws std::invalid_argument if width or slope is not positive.
  GeneralizedBell(double center, double width, double slope);

  [[nodiscard]] double degree(double x) const noexcept override;
  [[nodiscard]] Interval support() const noexcept override;
  [[nodiscard]] double peak() const noexcept override { return center_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<MembershipFunction> clone() const override;

 private:
  double center_;
  double width_;
  double slope_;
};

/// Sigmoid: mu(x) = 1 / (1 + exp(-slope (x - inflection))). Positive slope
/// rises left-to-right (a smooth right shoulder); negative slope falls.
class Sigmoid final : public MembershipFunction {
 public:
  /// \throws std::invalid_argument if slope is zero or non-finite.
  Sigmoid(double inflection, double slope);

  [[nodiscard]] double degree(double x) const noexcept override;
  [[nodiscard]] Interval support() const noexcept override;
  [[nodiscard]] double peak() const noexcept override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<MembershipFunction> clone() const override;

 private:
  double inflection_;
  double slope_;
};

[[nodiscard]] std::unique_ptr<MembershipFunction> makeGaussian(double mean,
                                                               double sigma);
[[nodiscard]] std::unique_ptr<MembershipFunction> makeBell(double center,
                                                           double width,
                                                           double slope);
[[nodiscard]] std::unique_ptr<MembershipFunction> makeSigmoid(
    double inflection, double slope);

}  // namespace facs::fuzzy
