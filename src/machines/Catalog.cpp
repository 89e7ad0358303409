//===- machines/Catalog.cpp -----------------------------------------------===//

#include "machines/Catalog.h"

#include "machines/MdlModel.h"

#include <sstream>

using namespace rmd;

const std::vector<std::string> &rmd::machineNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const CatalogEntry &E : machineCatalog())
      Out.emplace_back(E.Name);
    return Out;
  }();
  return Names;
}

Expected<MachineModel> rmd::loadMachine(std::string_view Name) {
  for (const CatalogEntry &E : machineCatalog()) {
    if (E.Name != Name)
      continue;
    DiagnosticEngine Diags;
    std::optional<MachineModel> Model = parseMdlModel(E.Mdl, Diags);
    if (!Model) {
      std::ostringstream OS;
      Diags.print(OS, std::string(E.File));
      return Status(ErrorCode::ParseError, OS.str());
    }
    return std::move(*Model);
  }
  std::string Known;
  for (const std::string &N : machineNames()) {
    if (!Known.empty())
      Known += ", ";
    Known += N;
  }
  return Status(ErrorCode::ProtocolError, "unknown machine '" +
                                              std::string(Name) +
                                              "' (known: " + Known + ")");
}
