// Quickstart: declare a schema, parse a query, build a PINUM plan cache
// with two optimizer calls, and price index configurations without ever
// calling the optimizer again.
package main

import (
	"fmt"
	"log"

	"github.com/pinumdb/pinum"
)

func main() {
	db := pinum.NewDatabase()

	// A small orders/customers schema.
	db.MustTable(&pinum.Table{
		Name:     "customers",
		RowCount: 200_000,
		Columns: []*pinum.Column{
			{Name: "id", NDV: 200_000, Min: 1, Max: 200_000, NotNull: true},
			{Name: "region", NDV: 50, Min: 1, Max: 50},
			{Name: "segment", NDV: 10, Min: 1, Max: 10},
		},
	})
	db.MustTable(&pinum.Table{
		Name:     "orders",
		RowCount: 5_000_000,
		Columns: []*pinum.Column{
			{Name: "id", NDV: 5_000_000, Min: 1, Max: 5_000_000, NotNull: true},
			{Name: "customer_id", NDV: 200_000, Min: 1, Max: 200_000, NotNull: true},
			{Name: "amount", NDV: 10_000, Min: 1, Max: 10_000},
			{Name: "order_date", NDV: 2_000, Min: 1, Max: 2_000},
		},
	})

	q, err := db.ParseQuery(
		"SELECT orders.amount, customers.region "+
			"FROM orders, customers "+
			"WHERE orders.customer_id = customers.id AND orders.order_date BETWEEN 1900 AND 1919 "+
			"ORDER BY customers.region", "orders-by-region")
	if err != nil {
		log.Fatal(err)
	}

	// Build the plan cache: exactly two optimizer calls, regardless of
	// how many configurations we price afterwards.
	cache, err := db.BuildPlanCache(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache built with %d optimizer calls: %d plans for %d interesting order combinations\n\n",
		cache.Stats.OptimizerCalls, cache.Stats.PlansCached, cache.Stats.CombosEnumerated)

	// Price a few what-if configurations — pure arithmetic from here on.
	ws := db.WhatIf()
	mk := func(table string, cols ...string) *pinum.Index {
		ix, err := ws.CreateIndex(table, cols...)
		if err != nil {
			log.Fatal(err)
		}
		return ix
	}
	configs := map[string]*pinum.Config{
		"no indexes":         {},
		"orders(order_date)": {Indexes: []*pinum.Index{mk("orders", "order_date", "amount", "customer_id")}},
		"customers(region)":  {Indexes: []*pinum.Index{mk("customers", "region", "id")}},
		"both":               {Indexes: []*pinum.Index{mk("orders", "order_date", "amount", "customer_id"), mk("customers", "region", "id")}},
	}
	for name, cfg := range configs {
		cost, plan, err := cache.Cost(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s cost %12.0f   (winning combo %v)\n", name, cost, cache.Combo(plan))
	}
}
