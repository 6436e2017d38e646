#include "timeseries/seasonal.h"

#include <algorithm>

namespace elink {

SeasonalArModel::SeasonalArModel(int measurements_per_day)
    : per_day_(measurements_per_day),
      intra_day_rls_(1),
      daily_mean_rls_(3),
      beta_snapshot_(3, 0.0) {
  ELINK_CHECK(measurements_per_day > 0);
}

Result<SeasonalArModel> SeasonalArModel::Train(const Vector& history,
                                               int measurements_per_day) {
  if (measurements_per_day <= 0) {
    return Status::InvalidArgument("measurements_per_day must be positive");
  }
  if (static_cast<int>(history.size()) < 5 * measurements_per_day) {
    return Status::InvalidArgument(
        "SeasonalArModel::Train: history must span at least five days");
  }
  SeasonalArModel model(measurements_per_day);
  for (double x : history) model.Observe(x);
  return model;
}

void SeasonalArModel::Observe(double x) {
  // The a1 regression runs on deviations from the *current day's* running
  // mean: regressing raw temperatures (mean ~25C) without an intercept
  // would push a1 towards 1 for every node (mean domination), and the
  // previous day's mean is offset by the day-to-day drift the b's model.
  // The first few samples of each day are excluded while the running mean
  // stabilizes.
  const int warmup = std::max(2, per_day_ / 16);
  const double ref = day_count_ > 0 ? day_sum_ / day_count_ : x;
  const double deviation = x - ref;
  if (have_prev_x_ && day_count_ >= warmup) {
    intra_day_rls_.Observe({prev_x_}, deviation);
  }
  prev_x_ = deviation;
  have_prev_x_ = true;

  day_sum_ += x;
  if (++day_count_ == per_day_) FinishDay();
}

void SeasonalArModel::FinishDay() {
  const double mean = day_sum_ / per_day_;
  day_sum_ = 0.0;
  day_count_ = 0;
  ++completed_days_;

  if (recent_daily_means_.size() == 3) {
    // Today's mean regressed on the three preceding daily means.
    const double regressors[3] = {recent_daily_means_[0],
                                  recent_daily_means_[1],
                                  recent_daily_means_[2]};
    daily_mean_rls_.Observe(regressors, mean);
    beta_snapshot_ = daily_mean_rls_.coefficients();
  }
  recent_daily_means_.push_front(mean);
  if (recent_daily_means_.size() > 3) recent_daily_means_.pop_back();
}

Vector SeasonalArModel::Feature() const {
  Vector f(4, 0.0);
  f[0] = intra_day_rls_.coefficients()[0];
  for (int j = 0; j < 3; ++j) f[1 + j] = beta_snapshot_[j];
  return f;
}

}  // namespace elink
