//===- mdl/Writer.h - Machine description serialization --------*- C++ -*-===//
///
/// \file
/// Serializes a MachineDescription back to MDL text. writeMdl() and
/// parseMdl() round-trip: parse(write(MD)) == MD (asserted by tests for
/// every catalog machine and for reduced descriptions).
///
//===----------------------------------------------------------------------===//

#ifndef RMD_MDL_WRITER_H
#define RMD_MDL_WRITER_H

#include "mdesc/MachineDescription.h"

#include <string>

namespace rmd {

/// Renders \p MD as MDL text.
std::string writeMdl(const MachineDescription &MD);

} // namespace rmd

#endif // RMD_MDL_WRITER_H
