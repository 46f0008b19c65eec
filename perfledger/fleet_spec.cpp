#include "fleet_spec.h"

#include "obs/obs.h"

namespace ledger {

namespace {

std::vector<workload> make_workloads() {
  std::vector<workload> ws(3);
  ws[0].name = "fleet-live";
  ws[0].attack_frac = 0.05;
  ws[0].templates_per_device = 16;
  ws[0].offered_rate = 1700;

  ws[1].name = "fleet-idle";
  ws[1].delta_frames = true;
  ws[1].templates_per_device = 1;
  ws[1].offered_rate = 11000;

  ws[2].name = "fleet-durable";
  ws[2].durable = true;
  ws[2].attack_frac = 0.05;
  ws[2].templates_per_device = 16;
  ws[2].offered_rate = 1400;
  return ws;
}

const std::vector<workload>& all_workloads() {
  static const std::vector<workload> ws = make_workloads();
  return ws;
}

}  // namespace

const workload* find_workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const auto& w : all_workloads()) out.push_back(w.name);
  return out;
}

std::vector<app_group> fleet_groups() {
  const auto eval = apps::evaluation_apps();  // SyringePump, Fire, Ranger
  std::vector<app_group> g;
  std::uint32_t next = 1;
  auto add = [&](apps::app_spec spec, std::uint32_t n, native_attack a) {
    app_group grp;
    grp.spec = std::move(spec);
    grp.first_id = next;
    grp.count = n;
    grp.attack = a;
    next += n;
    g.push_back(std::move(grp));
  };
  for (const auto& app : eval) add(app, 64, native_attack::none);
  add(apps::door_lock_app(), 64, native_attack::door_lock);
  add(apps::fig1_app(), 4, native_attack::fig1);
  add(apps::fig2_app(), 4, native_attack::fig2);
  return g;
}

std::uint32_t fleet_devices() {
  std::uint32_t n = 0;
  for (const auto& g : fleet_groups()) n += g.count;
  return n;
}

byte_vec master_key() { return byte_vec(32, 0xAB); }

std::vector<instr::linked_program> build_firmwares(
    const std::vector<app_group>& groups) {
  std::vector<instr::linked_program> progs;
  progs.reserve(groups.size());
  for (const auto& g : groups) {
    progs.push_back(
        apps::build_app(g.spec, instr::instrumentation::dialed));
  }
  return progs;
}

fleet::hub_config hub_config() {
  fleet::hub_config cfg;
  cfg.max_outstanding = 64;  // dialed-serve --max-outstanding default
  cfg.sequential_batch = true;
  return cfg;
}

service::service(const workload& w, const std::string& state_dir)
    : w_(w), state_dir_(state_dir) {
  const auto groups = fleet_groups();
  auto progs = build_firmwares(groups);
  const auto hub_cfg = hub_config();
  if (w.durable) {
    store::fleet_store::options so;
    so.master_key = master_key();
    so.hub = hub_cfg;
    so.wal.sync = store::wal_sync::none;
    fleet_.emplace(fleet::partitioned_fleet::open(state_dir, 1,
                                                  std::move(so)));
  } else {
    fleet_.emplace(fleet::partitioned_fleet::create(1,
                                                    master_key(), hub_cfg));
  }
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::uint32_t k = 0; k < groups[gi].count; ++k) {
      fleet_->provision(groups[gi].first_id + k, progs[gi]);
    }
  }
  if (w.durable) {
    // One warm standby per partition, fed by WAL shipping (dialed-serve
    // --standby-dir), under state_dir/standby/p<i>.
    auto stores = fleet_->stores();
    for (std::size_t p = 0; p < stores.size(); ++p) {
      store::follower_config fc;
      fc.retired_memory = hub_cfg.retired_memory;
      followers_.push_back(std::make_unique<store::wal_follower>(
          state_dir + "/standby/p" + std::to_string(p), fc));
      shippers_.push_back(std::make_unique<store::wal_shipper>());
      shippers_.back()->add_follower(followers_.back().get());
      stores[p]->attach_shipper(shippers_.back().get());
    }
  }
  serve(fleet_->router());
}

service::~service() {
  stop();
  if (fleet_ && w_.durable) {
    for (auto* st : fleet_->stores()) st->attach_shipper(nullptr);
  }
}

void service::serve(fleet::hub_like& hub) {
  stop();
  std::vector<const store::wal_shipper*> shipper_ptrs;
  for (const auto& s : shippers_) shipper_ptrs.push_back(s.get());
  net::server_config cfg;  // dialed-serve defaults: batch 64, 5 ms
  server_ = std::make_unique<net::attest_server>(
      hub, cfg,
      w_.durable ? fleet_->stores() : std::vector<store::fleet_store*>{},
      shipper_ptrs);
  server_->start();
}

void service::stop() {
  if (server_) {
    server_->stop();
    server_.reset();
  }
}

double service::close_and_recover() {
  stop();
  for (auto* st : fleet_->stores()) st->attach_shipper(nullptr);
  fleet_.reset();
  const auto t0 = obs::now_ns();
  store::fleet_store::options so;
  so.master_key = master_key();
  so.hub = hub_config();
  so.wal.sync = store::wal_sync::none;
  auto reopened = fleet::partitioned_fleet::open(state_dir_, 1,
                                                 std::move(so));
  const auto t1 = obs::now_ns();
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace ledger
