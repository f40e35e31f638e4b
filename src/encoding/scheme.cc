#include "encoding/scheme.hh"

#include "common/log.hh"

namespace desc::encoding {

const char *
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Binary:
        return "Conventional Binary";
      case SchemeKind::DynamicZeroCompression:
        return "Dynamic Zero Compression";
      case SchemeKind::BusInvert:
        return "Bus Invert Coding";
      case SchemeKind::ZeroSkipBusInvert:
        return "Zero Skipped Bus Invert";
      case SchemeKind::EncodedZeroSkipBusInvert:
        return "Encoded Zero Skipped Bus Invert";
      case SchemeKind::DescBasic:
        return "Basic DESC";
      case SchemeKind::DescZeroSkip:
        return "Zero Skipped DESC";
      case SchemeKind::DescLastValueSkip:
        return "Last Value Skipped DESC";
    }
    DESC_PANIC("bad scheme enum");
}

} // namespace desc::encoding
