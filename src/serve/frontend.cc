#include "serve/frontend.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/status.h"

namespace elink {
namespace serve {

namespace {

void AppendDouble(std::string* out, double v) {
  if (v == 0.0) v = 0.0;  // Canonicalize -0.0 so equal predicates share keys.
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int b = 0; b < 8; ++b) {
    out->push_back(static_cast<char>((bits >> (8 * b)) & 0xFF));
  }
}

void AppendInt(std::string* out, int v) {
  const uint32_t u = static_cast<uint32_t>(v);
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<char>((u >> (8 * b)) & 0xFF));
  }
}

}  // namespace

std::string CanonicalRangeKey(const Feature& q, double r) {
  std::string key;
  key.reserve(2 + 8 * (q.size() + 1));
  key.push_back('R');
  AppendInt(&key, static_cast<int>(q.size()));
  for (double v : q) AppendDouble(&key, v);
  AppendDouble(&key, r);
  return key;
}

std::string CanonicalPathKey(int source, int destination,
                             const Feature& danger, double gamma) {
  std::string key;
  key.reserve(2 + 8 + 8 * (danger.size() + 1));
  key.push_back('P');
  AppendInt(&key, source);
  AppendInt(&key, destination);
  AppendInt(&key, static_cast<int>(danger.size()));
  for (double v : danger) AppendDouble(&key, v);
  AppendDouble(&key, gamma);
  return key;
}

ServeFrontend::ServeFrontend(std::shared_ptr<const DistanceMetric> metric,
                             const Options& options)
    : metric_(std::move(metric)), cache_(options.cache) {}

ServeFrontend::~ServeFrontend() = default;

void ServeFrontend::Publish(const Clustering& clustering,
                            const std::vector<Feature>& features,
                            const AdjacencyList& adjacency,
                            const std::vector<char>& live,
                            const std::vector<int>& hook_bumped_roots) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  const int n = static_cast<int>(features.size());
  ELINK_CHECK(static_cast<int>(clustering.root_of.size()) == n);
  ELINK_CHECK(static_cast<int>(adjacency.size()) == n);
  const auto is_live = [&live](int i) {
    return live.empty() || live[i] != 0;
  };

  // Which clusters changed since the last publish?  `changed[r]` is indexed
  // by root in deployment numbering.
  std::vector<char> changed(n, 0);
  const auto mark = [&changed](int root) {
    if (root >= 0 && root < static_cast<int>(changed.size())) {
      changed[root] = 1;
    }
  };
  const bool first = version_ == 0;
  if (!first && static_cast<int>(last_features_.size()) == n) {
    const auto was_live = [this](int i) {
      return last_live_.empty() || last_live_[i] != 0;
    };
    for (int i = 0; i < n; ++i) {
      const bool l0 = was_live(i);
      const bool l1 = is_live(i);
      if (l0 != l1) {
        // A node came or went: its old and new clusters both observe it.
        if (l0) mark(last_clustering_.root_of[i]);
        if (l1) mark(clustering.root_of[i]);
        continue;
      }
      if (!l1) continue;
      if (last_clustering_.root_of[i] != clustering.root_of[i]) {
        mark(last_clustering_.root_of[i]);
        mark(clustering.root_of[i]);
      }
      if (last_features_[i] != features[i]) {
        mark(last_clustering_.root_of[i]);
        mark(clustering.root_of[i]);
      }
      if (last_adjacency_[i] != adjacency[i]) {
        mark(last_clustering_.root_of[i]);
        mark(clustering.root_of[i]);
      }
    }
  } else if (!first) {
    // Deployment size changed (should not happen under the fixed-n churn
    // model, but stay safe): every cluster changed.
    for (int i = 0; i < n; ++i) {
      if (is_live(i)) mark(clustering.root_of[i]);
    }
  }
  for (int r : hook_bumped_roots) {
    mark(r);
    hook_bumps_.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t bumped = static_cast<uint64_t>(
      std::count(changed.begin(), changed.end(), 1));
  epoch_bumps_.fetch_add(bumped, std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);

  // A changed cluster is the only way to a new version, so two views share
  // a version exactly when no cluster changed between them.  Nothing
  // changed: keep the current view (and the warm cache) as they are.
  if (first || bumped > 0) {
    ++version_;
    SwapView(ReadView::Build(adjacency, features, live, metric_, version_));
    views_built_.fetch_add(1, std::memory_order_relaxed);
    cache_.InvalidateStale(version_);
  }

  last_clustering_ = clustering;
  last_features_ = features;
  last_adjacency_ = adjacency;
  last_live_ = live;
}

template <class Answer, class Compute>
Served<Answer> ServeFrontend::Serve(const std::string& key,
                                    Compute compute) {
  std::shared_ptr<const ReadView> view = View();
  ELINK_CHECK(view != nullptr);
  Served<Answer> out;
  out.view_version = view->version();
  if (std::optional<CacheEntry> hit = cache_.Lookup(key, view->version())) {
    if (Answer* cached = std::get_if<Answer>(&hit->answer)) {
      out.answer = std::move(*cached);
      out.from_cache = true;
      out.answer_version = hit->version;
      return out;
    }
  }
  out.answer = compute(*view);
  out.answer_version = view->version();
  cache_.Insert(key, CacheEntry{out.answer, view->version()});
  return out;
}

ServedRange ServeFrontend::Range(const Feature& q, double r) {
  range_queries_.fetch_add(1, std::memory_order_relaxed);
  return Serve<RangeAnswer>(
      CanonicalRangeKey(q, r),
      [&](const ReadView& view) { return view.Range(q, r); });
}

ServedPath ServeFrontend::SafePath(int source, int destination,
                                   const Feature& danger, double gamma) {
  path_queries_.fetch_add(1, std::memory_order_relaxed);
  return Serve<PathAnswer>(
      CanonicalPathKey(source, destination, danger, gamma),
      [&](const ReadView& view) {
        return view.SafePath(source, destination, danger, gamma);
      });
}

std::shared_ptr<const ReadView> ServeFrontend::View() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

void ServeFrontend::SwapView(std::shared_ptr<const ReadView> view) {
  std::lock_guard<std::mutex> lock(view_mu_);
  view_ = std::move(view);
}

ServeCounters ServeFrontend::Counters() const {
  ServeCounters c;
  c.range_queries = range_queries_.load(std::memory_order_relaxed);
  c.path_queries = path_queries_.load(std::memory_order_relaxed);
  c.publishes = publishes_.load(std::memory_order_relaxed);
  c.views_built = views_built_.load(std::memory_order_relaxed);
  c.epoch_bumps = epoch_bumps_.load(std::memory_order_relaxed);
  c.hook_bumps = hook_bumps_.load(std::memory_order_relaxed);
  c.cache = cache_.Counters();
  return c;
}

}  // namespace serve
}  // namespace elink
