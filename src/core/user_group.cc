#include "core/user_group.h"

#include <array>
#include <cstring>
#include <string>

#include "core/error_model.h"

namespace pldp {
namespace {

/// PrivacyFactorTerm through a direct-mapped memo keyed by the bits of
/// epsilon, so a menu of epsilons costs one exp/expm1 pair per value rather
/// than per user. The same function on the same bits gives the same bits.
class PrivacyTermMemo {
 public:
  double operator()(double epsilon) {
    uint64_t bits = 0;
    std::memcpy(&bits, &epsilon, sizeof bits);
    Slot& slot = slots_[(bits * 0x9E3779B97F4A7C15ull) >> 58];
    if (slot.bits != bits) slot = {bits, PrivacyFactorTerm(epsilon)};
    return slot.term;
  }

 private:
  struct Slot {
    uint64_t bits = 0;  // +0.0, which no valid epsilon has
    double term = 0.0;
  };
  std::array<Slot, 64> slots_;
};

/// A stable counting sort of users by safe-region node: groups come out in
/// node order, and each group's members ascending, so its varsigma is summed
/// in member order. `spec(i)` is user i's validated specification.
template <typename SpecAt>
std::vector<UserGroup> GroupByRegion(const SpatialTaxonomy& taxonomy,
                                     size_t num_users, SpecAt spec) {
  // Users per node, then each populated node's group index.
  std::vector<uint32_t> group_of(taxonomy.num_nodes(), 0);
  for (size_t i = 0; i < num_users; ++i) ++group_of[spec(i).safe_region];
  std::vector<UserGroup> groups;
  for (NodeId node = 0; node < group_of.size(); ++node) {
    if (group_of[node] == 0) continue;
    UserGroup& group = groups.emplace_back();
    group.region = node;
    group.members.reserve(group_of[node]);
    group_of[node] = static_cast<uint32_t>(groups.size() - 1);
  }
  PrivacyTermMemo term;
  for (size_t i = 0; i < num_users; ++i) {
    const PrivacySpec& user_spec = spec(i);
    UserGroup& group = groups[group_of[user_spec.safe_region]];
    group.members.push_back(static_cast<uint32_t>(i));
    group.varsigma += term(user_spec.epsilon);
  }
  return groups;
}

}  // namespace

StatusOr<std::vector<UserGroup>> GroupUsersBySafeRegion(
    const SpatialTaxonomy& taxonomy, const std::vector<UserRecord>& users) {
  PLDP_RETURN_IF_ERROR(ValidateUsers(taxonomy, users));
  return GroupByRegion(taxonomy, users.size(),
                       [&](size_t i) -> const PrivacySpec& {
                         return users[i].spec;
                       });
}

StatusOr<std::vector<UserGroup>> GroupSpecsBySafeRegion(
    const SpatialTaxonomy& taxonomy, const std::vector<PrivacySpec>& specs) {
  for (size_t i = 0; i < specs.size(); ++i) {
    const Status s = ValidatePrivacySpec(taxonomy, specs[i]);
    if (!s.ok()) {
      return Status(s.code(), "spec " + std::to_string(i) + ": " + s.message());
    }
  }
  return GroupByRegion(taxonomy, specs.size(),
                       [&](size_t i) -> const PrivacySpec& {
                         return specs[i];
                       });
}

}  // namespace pldp
