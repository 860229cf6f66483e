// Forward declarations for the snapshot codec, so subsystem headers can
// declare save(Writer&)/load(Reader&) members without pulling in the full
// codec header.
#pragma once

namespace sgxpl::snapshot {
class Writer;
class Reader;
struct RunMeta;
struct ChainHeader;
struct TenantGeometry;
}  // namespace sgxpl::snapshot
