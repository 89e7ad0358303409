//===- server/MachineRegistry.cpp -----------------------------------------===//

#include "server/MachineRegistry.h"

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/ReductionCache.h"

using namespace rmd;
using namespace rmd::server;

LoadedMachine::LoadedMachine(std::string TheName, MachineModel TheModel)
    : Name(std::move(TheName)), Model(std::move(TheModel)) {
  EM = expandAlternatives(Model.MD);
  // First rung of the degradation ladder: any reduction failure schedules
  // against the original description (identical constraints, Theorem 1).
  // Goes through the RMD_REDUCTION_CACHE environment cache when set.
  SafeReduction Safe = reduceMachineOrFallback(EM.Flat);
  Degraded = Safe.Degraded;
  Why = Safe.Why;
  Reduced = std::move(Safe.Result.Reduced);
  UseBitvector = Reduced.numResources() <= QueryConfig().WordBits;
}

std::unique_ptr<ContentionQueryModule>
LoadedMachine::makeModule(const QueryConfig &Config) const {
  if (UseBitvector)
    return std::make_unique<BitvectorQueryModule>(Reduced, Config,
                                                  Arenas.get(Config));
  return std::make_unique<DiscreteQueryModule>(Reduced, Config);
}

Expected<const LoadedMachine *> MachineRegistry::load(const std::string &Name) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = IdByName.find(Name);
    if (It != IdByName.end())
      return const_cast<const LoadedMachine *>(
          Machines[It->second - 1].get());
  }
  // Build outside the lock: reduction is seconds-scale on big machines and
  // must not stall unrelated lookups. A racing load of the same name is
  // resolved below (first registration wins; the loser's work is dropped).
  Expected<MachineModel> Model = loadMachine(Name);
  if (!Model)
    return Model.status();
  auto Built = std::make_unique<LoadedMachine>(Name, std::move(Model.value()));
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = IdByName.find(Name);
  if (It != IdByName.end())
    return const_cast<const LoadedMachine *>(Machines[It->second - 1].get());
  Built->Id = static_cast<uint32_t>(Machines.size()) + 1;
  IdByName.emplace(Name, Built->Id);
  Machines.push_back(std::move(Built));
  return const_cast<const LoadedMachine *>(Machines.back().get());
}

const LoadedMachine *MachineRegistry::byId(uint32_t Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Id == 0 || Id > Machines.size())
    return nullptr;
  return Machines[Id - 1].get();
}

size_t MachineRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Machines.size();
}

