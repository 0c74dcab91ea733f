#include <gtest/gtest.h>

#include "difftree/builder.h"
#include "sql/parser.h"
#include "widgets/appropriateness.h"
#include "widgets/domain.h"
#include "widgets/size_model.h"

namespace ifgen {
namespace {

DiffTree NumAny(std::initializer_list<int> values) {
  std::vector<DiffTree> alts;
  for (int v : values) alts.push_back(DiffTree::FromAst(Num(v)));
  return DiffTree::Any(std::move(alts));
}

TEST(Domain, NumericAny) {
  DiffTree any = NumAny({10, 100, 1000});
  WidgetDomain d = ExtractDomain(any);
  EXPECT_EQ(d.cardinality, 3u);
  EXPECT_TRUE(d.all_numeric);
  EXPECT_TRUE(d.all_leaf_literals);
  EXPECT_FALSE(d.has_nested_choices);
  EXPECT_DOUBLE_EQ(d.num_lo, 10);
  EXPECT_DOUBLE_EQ(d.num_hi, 1000);
}

TEST(Domain, MixedLeafAny) {
  DiffTree any = DiffTree::Any({DiffTree::FromAst(Str("USA")),
                                DiffTree::FromAst(Str("EUR"))});
  WidgetDomain d = ExtractDomain(any);
  EXPECT_FALSE(d.all_numeric);
  EXPECT_TRUE(d.all_leaf_literals);
}

TEST(Domain, NestedChoicesDetected) {
  DiffTree inner = DiffTree::Any({DiffTree::FromAst(Col("a"))});
  DiffTree outer = DiffTree::Any({DiffTree(Symbol::kProject, "", {inner}),
                                  DiffTree::FromAst(Col("b"))});
  WidgetDomain d = ExtractDomain(outer);
  EXPECT_TRUE(d.has_nested_choices);
}

TEST(Domain, ComplexAlternativesGetShortLabels) {
  auto q1 = ParseQuery("select top 10 objid from stars where u between 0 and 30");
  auto q2 = ParseQuery("select count(*) from quasars where g between 1 and 2");
  DiffTree any = DiffTree::Any({DiffTree::FromAst(*q1), DiffTree::FromAst(*q2)});
  WidgetDomain d = ExtractDomain(any);
  EXPECT_EQ(d.labels[0], "q1");
  EXPECT_EQ(d.labels[1], "q2");
  EXPECT_GT(d.avg_subtree_nodes, 5.0);
}

TEST(Domain, ValidKindsForLeafAny) {
  WidgetDomain d = ExtractDomain(NumAny({1, 2, 3}));
  auto kinds = ValidWidgetKinds(d);
  auto has = [&](WidgetKind k) {
    return std::find(kinds.begin(), kinds.end(), k) != kinds.end();
  };
  EXPECT_TRUE(has(WidgetKind::kDropdown));
  EXPECT_TRUE(has(WidgetKind::kRadio));
  EXPECT_TRUE(has(WidgetKind::kButtons));
  EXPECT_TRUE(has(WidgetKind::kSlider));   // numeric
  EXPECT_TRUE(has(WidgetKind::kTextbox));  // leaf literals
}

TEST(Domain, NestedOnlyTabs) {
  DiffTree inner = DiffTree::Any(
      {DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("b"))});
  DiffTree outer = DiffTree::Any({DiffTree(Symbol::kProject, "", {inner}),
                                  DiffTree(Symbol::kProject, "", {})});
  WidgetDomain d = ExtractDomain(outer);
  auto kinds = ValidWidgetKinds(d);
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], WidgetKind::kTabs);
}

TEST(Domain, OptAndMultiKinds) {
  DiffTree opt = DiffTree::Opt(DiffTree::FromAst(Col("a")));
  auto opt_kinds = ValidWidgetKinds(ExtractDomain(opt));
  EXPECT_EQ(opt_kinds[0], WidgetKind::kToggle);
  DiffTree multi = DiffTree::Multi(DiffTree::FromAst(Col("a")));
  auto multi_kinds = ValidWidgetKinds(ExtractDomain(multi));
  ASSERT_EQ(multi_kinds.size(), 1u);
  EXPECT_EQ(multi_kinds[0], WidgetKind::kAdder);
}

TEST(Domain, SingletonAnyIsLabel) {
  DiffTree any = DiffTree::Any({DiffTree::FromAst(Col("a"))});
  auto kinds = ValidWidgetKinds(ExtractDomain(any));
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], WidgetKind::kLabel);
}

TEST(BetweenPattern, Matches) {
  DiffTree between(Symbol::kBetween, "",
                   {DiffTree::FromAst(Col("u")), NumAny({0, 5}), NumAny({15, 30})});
  BetweenPattern bp;
  ASSERT_TRUE(MatchBetweenPattern(between, &bp));
  EXPECT_EQ(bp.label, "u");
}

TEST(BetweenPattern, RejectsFixedEndpointOrNonNumeric) {
  DiffTree fixed(Symbol::kBetween, "",
                 {DiffTree::FromAst(Col("u")), DiffTree::FromAst(Num(0)),
                  NumAny({15, 30})});
  EXPECT_FALSE(MatchBetweenPattern(fixed, nullptr));
  DiffTree strs(Symbol::kBetween, "",
                {DiffTree::FromAst(Col("u")),
                 DiffTree::Any({DiffTree::FromAst(Str("a")), DiffTree::FromAst(Str("b"))}),
                 NumAny({15, 30})});
  EXPECT_FALSE(MatchBetweenPattern(strs, nullptr));
}

TEST(SizeModel, PicksSmallestFittingTemplate) {
  CostConstants c;
  SizeModel sm(c);
  WidgetDomain d = ExtractDomain(NumAny({1, 2, 3}));
  auto t = sm.PickTemplate(WidgetKind::kRadio, d);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, SizeClass::kSmall);
  WidgetDomain d7 = ExtractDomain(NumAny({1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(*sm.PickTemplate(WidgetKind::kRadio, d7), SizeClass::kLarge);
  // A range slider always gets a size class, however odd its domain: the
  // widget assigner relies on it (no BETWEEN makes a layout fail).
  WidgetDomain empty;
  WidgetDomain long_label;
  long_label.labels = {std::string(1000, 'x')};
  long_label.max_label_len = 1000;
  for (const WidgetDomain& d : {empty, long_label}) {
    auto range = sm.PickTemplate(WidgetKind::kRangeSlider, d);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_TRUE(sm.FittedSize(WidgetKind::kRangeSlider, d).ok());
  }
}

TEST(SizeModel, RejectsOverCapacity) {
  CostConstants c;
  SizeModel sm(c);
  std::vector<DiffTree> alts;
  for (int i = 0; i < 12; ++i) alts.push_back(DiffTree::FromAst(Num(i)));
  WidgetDomain d = ExtractDomain(DiffTree::Any(std::move(alts)));
  EXPECT_FALSE(sm.PickTemplate(WidgetKind::kRadio, d).ok());
  EXPECT_FALSE(sm.PickTemplate(WidgetKind::kButtons, d).ok());
  EXPECT_TRUE(sm.PickTemplate(WidgetKind::kDropdown, d).ok());
}

TEST(SizeModel, RadioGrowsWithOptions) {
  CostConstants c;
  SizeModel sm(c);
  WidgetDomain d3 = ExtractDomain(NumAny({1, 2, 3}));
  WidgetDomain d6 = ExtractDomain(NumAny({1, 2, 3, 4, 5, 6}));
  EXPECT_LT(sm.FittedSize(WidgetKind::kRadio, d3)->height,
            sm.FittedSize(WidgetKind::kRadio, d6)->height);
  // Dropdowns stay one row high regardless.
  EXPECT_EQ(sm.FittedSize(WidgetKind::kDropdown, d6)->height, 1);
}

TEST(Appropriateness, OrderingsMatchHciIntuition) {
  CostConstants c;
  WidgetDomain small = ExtractDomain(NumAny({1, 2, 3}));
  // Small domains: radio beats dropdown beats textbox.
  EXPECT_LT(AppropriatenessCost(c, WidgetKind::kRadio, small),
            AppropriatenessCost(c, WidgetKind::kDropdown, small));
  EXPECT_LT(AppropriatenessCost(c, WidgetKind::kDropdown, small),
            AppropriatenessCost(c, WidgetKind::kTextbox, small));
  // Large domains: dropdown beats radio.
  std::vector<DiffTree> many;
  for (int i = 0; i < 9; ++i) many.push_back(DiffTree::FromAst(Num(i)));
  WidgetDomain large = ExtractDomain(DiffTree::Any(std::move(many)));
  EXPECT_LT(AppropriatenessCost(c, WidgetKind::kDropdown, large),
            AppropriatenessCost(c, WidgetKind::kRadio, large));
}

TEST(Appropriateness, ComplexityPenalizesSubtreeDomains) {
  CostConstants c;
  auto q1 = ParseQuery("select a from t where x = 1");
  auto q2 = ParseQuery("select b from u where y = 2");
  WidgetDomain complex_domain = ExtractDomain(
      DiffTree::Any({DiffTree::FromAst(*q1), DiffTree::FromAst(*q2)}));
  WidgetDomain leaf_domain = ExtractDomain(NumAny({1, 2}));
  EXPECT_GT(AppropriatenessCost(c, WidgetKind::kRadio, complex_domain),
            AppropriatenessCost(c, WidgetKind::kRadio, leaf_domain) + 3.0);
}

TEST(Appropriateness, RangeSliderBeatsTwoSliders) {
  CostConstants c;
  WidgetDomain numeric = ExtractDomain(NumAny({0, 30}));
  EXPECT_LT(AppropriatenessCost(c, WidgetKind::kRangeSlider, numeric),
            2 * AppropriatenessCost(c, WidgetKind::kSlider, numeric));
}

TEST(InteractionCost, DropdownScalesLogarithmically) {
  CostConstants c;
  WidgetDomain d4 = ExtractDomain(NumAny({1, 2, 3, 4}));
  std::vector<DiffTree> alts;
  for (int i = 0; i < 16; ++i) alts.push_back(DiffTree::FromAst(Num(i)));
  WidgetDomain d16 = ExtractDomain(DiffTree::Any(std::move(alts)));
  double c4 = InteractionCost(c, WidgetKind::kDropdown, d4);
  double c16 = InteractionCost(c, WidgetKind::kDropdown, d16);
  EXPECT_GT(c16, c4);
  EXPECT_LT(c16 - c4, 0.3);  // log growth, not linear
}

TEST(WidgetKind, Classification) {
  EXPECT_TRUE(IsLayoutWidget(WidgetKind::kVertical));
  EXPECT_TRUE(IsLayoutWidget(WidgetKind::kAdder));
  EXPECT_FALSE(IsLayoutWidget(WidgetKind::kTabs));
  EXPECT_TRUE(ShowsAllOptions(WidgetKind::kRadio));
  EXPECT_FALSE(ShowsAllOptions(WidgetKind::kDropdown));
}

}  // namespace
}  // namespace ifgen
