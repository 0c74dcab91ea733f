#pragma once

#include "util/status.h"
#include "widgets/constants.h"
#include "widgets/domain.h"
#include "widgets/widget.h"

namespace ifgen {

/// \brief A leaf widget's size template: the class the size model picked and
/// the grid size it gives.
struct WidgetTemplate {
  SizeClass size_class = SizeClass::kSmall;
  WidgetSize size;
};

/// \brief Discretized size model for leaf (interaction) widgets.
///
/// Widgets come in small/medium/large templates (paper, "Widgets"); the
/// model picks the smallest template whose capacity fits the domain, and
/// reports the widget as invalid when even the large template cannot hold
/// it (e.g. radio buttons over 30 options). Container sizes (layouts, tabs,
/// adder) are composed bottom-up by the layout solver, not here.
class SizeModel {
 public:
  explicit SizeModel(const CostConstants& constants) : c_(constants) {}

  /// Smallest fitting template, or InvalidArgument when none fits.
  Result<SizeClass> PickTemplate(WidgetKind kind, const WidgetDomain& domain) const;

  /// Concrete grid size of `kind` at `size_class` for `domain`.
  WidgetSize SizeOf(WidgetKind kind, SizeClass size_class,
                    const WidgetDomain& domain) const;

  /// Convenience: size of the smallest fitting template.
  Result<WidgetSize> FittedSize(WidgetKind kind, const WidgetDomain& domain) const;

 private:
  const CostConstants& c_;
};

}  // namespace ifgen
