//===- machines/Catalog.h - The corpus machines by name ---------*- C++ -*-===//
///
/// \file
/// The seven corpus machines are defined once, as the annotated MDL files
/// in the repository's `machines/` directory. The build embeds those files
/// verbatim (src/machines/CMakeLists.txt generates the table), so every
/// tool, bench and test loads a corpus machine by name through this
/// catalog and the MDL parser; nothing is read from disk at run time.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_MACHINES_CATALOG_H
#define RMD_MACHINES_CATALOG_H

#include "machines/MachineModel.h"
#include "support/Status.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rmd {

/// One embedded machine: its catalog name, the file it came from under
/// `machines/`, and that file's text.
struct CatalogEntry {
  std::string_view Name;
  std::string_view File;
  std::string_view Mdl;
};

/// Every embedded machine, in catalog order. Defined in the generated
/// MachineCatalogData.cpp.
std::span<const CatalogEntry> machineCatalog();

/// The catalog names in catalog order: fig1 cydra5 alpha21064 mips-r3000
/// toy-vliw playdoh m88100 (the names the wire protocol and PerfGateTest use).
const std::vector<std::string> &machineNames();

/// Parses the embedded MDL of machine \p Name. An unknown name is a
/// ProtocolError whose message lists the known names.
Expected<MachineModel> loadMachine(std::string_view Name);

} // namespace rmd

#endif // RMD_MACHINES_CATALOG_H
