//===- machines/MdlModel.h - MachineModel <-> MDL text ---------*- C++ -*-===//
///
/// \file
/// Serializes complete MachineModels (description + latencies + roles) to
/// and from the MDL text format, using the `latency` and `role` operation
/// annotations. This is the format of the `machines/*.mdl` files that
/// define the corpus machines (machines/Catalog.h embeds and loads them);
/// tests assert that every catalog machine round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_MACHINES_MDLMODEL_H
#define RMD_MACHINES_MDLMODEL_H

#include "machines/MachineModel.h"

#include <optional>
#include <string>
#include <string_view>

namespace rmd {

/// Stable spelling of \p Role for MDL files ("int-alu", "load", ...).
const char *roleName(OpRole Role);

/// Parses \p Name back to a role; std::nullopt for unknown spellings.
std::optional<OpRole> roleFromName(std::string_view Name);

/// Parses an annotated MDL buffer into a full machine model. Operations
/// without a `latency` annotation default to their first alternative's
/// table length; without a `role` annotation, to int-alu (a warning is
/// emitted for each defaulted operation).
std::optional<MachineModel> parseMdlModel(std::string_view Input,
                                          DiagnosticEngine &Diags);

/// Renders \p Model as annotated MDL text; parseMdlModel() inverts it.
std::string writeMdlModel(const MachineModel &Model);

} // namespace rmd

#endif // RMD_MACHINES_MDLMODEL_H
