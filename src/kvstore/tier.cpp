#include "kvstore/tier.hpp"

#include <algorithm>

namespace memfss::kvstore {

std::vector<std::string> ColdTier::keys() const {
  auto out = Store::keys();
  std::sort(out.begin(), out.end());
  return out;
}

SimTime ColdTier::read_cost(Bytes n) const {
  return costs_.access_latency +
         (costs_.read_bw > 0
              ? static_cast<double>(n) / costs_.read_bw
              : 0.0);
}

SimTime ColdTier::write_cost(Bytes n) const {
  return costs_.access_latency +
         (costs_.write_bw > 0
              ? static_cast<double>(n) / costs_.write_bw
              : 0.0);
}

}  // namespace memfss::kvstore
