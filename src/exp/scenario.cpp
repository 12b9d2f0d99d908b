#include "exp/scenario.hpp"

#include <cassert>

#include "common/log.hpp"

namespace memfss::exp {

Scenario::Scenario(const ScenarioParams& params) : params_(params) {
  assert(params.own_nodes >= 1 && params.own_nodes <= params.total_nodes);
  cluster_ = std::make_unique<cluster::Cluster>(sim_, params.total_nodes,
                                                params.node_spec);
  resv_ = std::make_unique<cluster::ReservationSystem>(sim_,
                                                       params.total_nodes);

  auto own = resv_->reserve("memfss-user", params.own_nodes);
  assert(own.ok());
  own_resv_ = std::move(own).value();
  own_ = own_resv_.nodes;

  fs::FileSystemConfig cfg;
  cfg.own_nodes = own_;
  cfg.own_store_capacity = params.own_store_capacity;
  cfg.stripe_size = params.stripe_size;
  cfg.redundancy = params.redundancy;
  cfg.copies = params.copies;
  cfg.victim_tier_capacity = params.victim_tier_capacity;
  fs_ = std::make_unique<fs::FileSystem>(*cluster_, std::move(cfg));

  const std::size_t tenant_count = params.total_nodes - params.own_nodes;
  if (tenant_count > 0) {
    auto tenant = resv_->reserve("tenant", tenant_count);
    assert(tenant.ok());
    tenant_resv_ = std::move(tenant).value();
    victims_ = tenant_resv_.nodes;
  }

  if (params.with_victims && !victims_.empty()) {
    // Tenants volunteer their nodes into the secondary queue; MemFSS
    // claims every offer and forms victim class 1.
    std::vector<cluster::ScavengeOffer> claimed;
    for (NodeId v : victims_) {
      auto st = resv_->register_offer(tenant_resv_, v,
                                      params.victim_memory_cap,
                                      params.victim_net_cap);
      assert(st.ok());
      auto offer = resv_->claim_offer(v);
      assert(offer.ok());
      claimed.push_back(offer.value());
    }
    auto st = fs_->add_victim_class(1, claimed, params.own_fraction);
    assert(st.ok());
    (void)st;
  }
}

double Scenario::release_own_reservation() {
  return resv_->release(own_resv_);
}

}  // namespace memfss::exp
