//===- machines/MachineModel.h - Machines + scheduling metadata -*- C++ -*-===//
///
/// \file
/// A MachineModel bundles a machine description with the scheduling
/// metadata the paper's experiments need beyond structural hazards: per
/// operation, the producer latency (cycles until a dependent consumer may
/// issue) and a coarse role used to bind machine-agnostic workload kernels
/// to concrete operations.
///
/// The corpus machines are MDL files under `machines/`, loaded by name
/// through machines/Catalog.h; makeScaledVliw() below is the one machine
/// family still built in C++.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_MACHINES_MACHINEMODEL_H
#define RMD_MACHINES_MACHINEMODEL_H

#include "mdesc/MachineDescription.h"

#include <vector>

namespace rmd {

/// Coarse operation roles used by the workload generator.
enum class OpRole {
  IntAlu,
  AddrCalc,
  Load,
  Store,
  FloatAdd,
  FloatMul,
  FloatDiv,
  Convert,
  Compare,
  Move,
  Branch,
};

/// A machine description plus scheduling metadata, indexed by the
/// *original* (pre-expansion) operation ids of MD.
struct MachineModel {
  MachineDescription MD;

  /// Latency[op]: cycles from issue of op until a data-dependent consumer
  /// may issue.
  std::vector<int> Latency;

  /// Role[op]: coarse role for workload binding.
  std::vector<OpRole> Role;

  /// Operations that play \p R, in id order (empty if the machine has no
  /// such operation).
  std::vector<OpId> operationsWithRole(OpRole R) const {
    std::vector<OpId> Ops;
    for (OpId Op = 0; Op < Role.size(); ++Op)
      if (Role[Op] == R)
        Ops.push_back(Op);
    return Ops;
  }
};

/// A parameterizable VLIW family for scaling studies: \p Units clusters
/// (U-way ALU alternatives), one memory pipeline per two clusters, one
/// shared non-pipelined divider busy \p DivBusy cycles. See
/// bench/scaling_study.cpp.
MachineModel makeScaledVliw(unsigned Units, unsigned DivBusy);

} // namespace rmd

#endif // RMD_MACHINES_MACHINEMODEL_H
