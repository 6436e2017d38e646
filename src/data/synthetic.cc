#include "data/synthetic.h"

#include <limits>

#include "timeseries/ar_model.h"

namespace elink {

Result<SensorDataset> MakeSyntheticDataset(const SyntheticConfig& config) {
  if (config.num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  if (config.alpha_min >= config.alpha_max || config.alpha_min < 0 ||
      config.alpha_max >= 1.0) {
    return Status::InvalidArgument("alpha range must satisfy 0<=min<max<1");
  }
  if (config.train_length < 10) {
    return Status::InvalidArgument("train_length too short");
  }
  if (config.stream_length < 0 ||
      config.stream_length >
          std::numeric_limits<int>::max() - config.train_length) {
    return Status::InvalidArgument(
        "stream_length must be non-negative and fit an int with train_length");
  }
  Rng rng(config.seed);
  Result<Topology> topo = MakeRandomTopologyWithDegree(
      config.num_nodes, config.density, config.target_avg_degree, &rng);
  if (!topo.ok()) return topo.status();

  SensorDataset ds;
  ds.name = "synthetic-uncorrelated";
  ds.topology = std::move(topo).value();
  ds.metric =
      std::make_shared<WeightedEuclidean>(WeightedEuclidean::Euclidean(1));
  ds.features.resize(config.num_nodes);
  ds.streams.resize(config.num_nodes);
  ds.train_streams.resize(config.num_nodes);

  for (int i = 0; i < config.num_nodes; ++i) {
    Rng node_rng = rng.Fork(static_cast<uint64_t>(i) + 500);
    const double alpha =
        node_rng.Uniform(config.alpha_min, config.alpha_max);
    // Generate training series + evaluation stream from the AR(1) process.
    const int total = config.train_length + config.stream_length;
    Vector series;
    series.reserve(total);
    double x = node_rng.Uniform01();
    for (int t = 0; t < total; ++t) {
      x = alpha * x + node_rng.Uniform01();
      series.push_back(x);
    }
    Vector train(series.begin(), series.begin() + config.train_length);
    // Demean before fitting: the U(0,1) innovations give the process a large
    // positive mean, and a no-intercept AR(1) fit on raw values would push
    // every node's coefficient towards 1 (mean domination), erasing the
    // alpha_i differences the experiment clusters on.
    double mean = 0.0;
    for (double v : train) mean += v;
    mean /= train.size();
    for (double& v : train) v -= mean;
    Result<ArModel> fit = FitAr(train, 1);
    if (!fit.ok()) return fit.status();
    ds.features[i] = {fit.value().coefficients[0]};
    ds.streams[i].assign(series.begin() + config.train_length, series.end());
    ds.train_streams[i].assign(series.begin(),
                               series.begin() + config.train_length);
  }
  return ds;
}

}  // namespace elink
